/**
 * @file
 * tg::Result — value-or-error outcome of a remote operation.
 *
 * Remote operations complete even when the network permanently loses
 * their packets (the fence drains, a blocked read unblocks with 0) — the
 * fault model's visible-error contract.  Result<T> carries that status
 * with the operation's value, so `co_await ctx.read(va)` yields both:
 *
 * @code
 *   tg::Result<tg::Word> r = co_await ctx.read(va);
 *   if (!r.ok())   // OpError::LinkFailure: the value never arrived
 *       recover();
 *   tg::Word v = r;  // implicit conversion for the common fault-free path
 * @endcode
 *
 * The implicit conversion keeps `Word v = co_await ctx.read(va)` working
 * unchanged; callers that care about delivery inspect ok()/error().
 * Result<T> is the one per-operation error channel: it compares the
 * node's HIB wire-failure count across the operation's wait.
 */

#ifndef TELEGRAPHOS_API_RESULT_HPP
#define TELEGRAPHOS_API_RESULT_HPP

namespace tg {

/** Error status of a remote operation. */
enum class OpError
{
    None,        ///< delivered normally
    LinkFailure, ///< lost by the network after exhausting its retries
};

/** Outcome of a value-producing remote operation. */
template <typename T>
class Result
{
  public:
    /** Value-free default (ok, zero value): Task<Result<T>> promise slot. */
    Result() = default;

    Result(T value, OpError error) : _value(value), _error(error) {}

    /** True when every packet of the operation was delivered. */
    bool ok() const { return _error == OpError::None; }
    OpError error() const { return _error; }

    /** The operation's value (0 when a lost read unblocked empty). */
    T value() const { return _value; }

    /** Migration shim: use the result where a plain T is expected. */
    operator T() const { return _value; }

  private:
    T _value{};
    OpError _error = OpError::None;
};

/** Outcome of a remote operation with no value (write, fence). */
template <>
class Result<void>
{
  public:
    explicit Result(OpError error = OpError::None) : _error(error) {}

    bool ok() const { return _error == OpError::None; }
    OpError error() const { return _error; }

  private:
    OpError _error;
};

} // namespace tg

#endif // TELEGRAPHOS_API_RESULT_HPP
