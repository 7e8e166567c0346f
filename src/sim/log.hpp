/**
 * @file
 * Minimal logging and error-reporting facilities (gem5-style panic/fatal).
 *
 *  - panic():  an internal simulator invariant was violated (a bug in the
 *              model itself); aborts.
 *  - fatal():  the user configured something impossible; exits cleanly.
 *  - warn() / inform(): advisory messages.
 */

#ifndef TELEGRAPHOS_SIM_LOG_HPP
#define TELEGRAPHOS_SIM_LOG_HPP

namespace tg {

/** Abort with a formatted message: simulator bug (never the user's fault). */
[[noreturn]] void panic(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Exit with a formatted message: user configuration error. */
[[noreturn]] void fatal(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Advisory warning to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Informational message to stderr. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace tg

#endif // TELEGRAPHOS_SIM_LOG_HPP
