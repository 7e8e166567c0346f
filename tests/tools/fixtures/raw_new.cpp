/**
 * @file
 * tglint fixture: raw new / delete.  The "#include <new>" header name
 * is not an allocation and must not fire.
 */

#include <new>

int
leaky()
{
    int *p = new int(7); // raw-new
    int v = *p;
    delete p;            // raw-new
    return v;
}
