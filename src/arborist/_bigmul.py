"""Full-size products of the orbit arithmetic: this module alone decides
how each is computed.

:mod:`critorbit` sends the product and the two squares that cost a level's
time to :func:`mul` and :func:`sqr`.  Below :data:`CUTOFF_BITS` they are
CPython's ``*``; from it on they call ``mpn_mul`` and ``mpn_sqr`` of the
system's libgmp through :mod:`ctypes` (GMP manual, "Low-level Functions").
A magnitude goes in as its array of 64-bit limbs, which is
``int.to_bytes(8 * n, "little")``; the product comes back through
``int.from_bytes`` and the sign is applied here.  Python owns every
buffer, so GMP holds no memory between calls, and ctypes releases the GIL
during each call, so threads share nothing.

The binding is made once per process, by :func:`functools.cache` on the
first product from the cutoff on, so ctypes stays unimported until then
(two threads racing on that call may each make one, and either serves).
libgmp is loaded only by soname (``ctypes.util.find_library`` would import
subprocess and may run ldconfig).  It is used when its limbs are 64 bits,
the byte order is little-endian, a C long (GMP's mp_size_t) has 8 bytes,
and a self-test against ``*`` passes; otherwise every product is ``*``
for the rest of the process.  Either way the results are the same
integers, and the callers' cross-checks do not depend on which path
computed them.
"""

from __future__ import annotations

import functools
import sys

#: Operand size from which the orbit's products go to GMP.  Measured on
#: CPython 3.11, best of 9, ``*`` against mpn_mul/mpn_sqr through ctypes,
#: in us:
#:
#:     operand bits   mul *     mul GMP   sqr *     sqr GMP
#:     2048           7.4-9.3   7.0-7.1   4.6-4.7   5.3-5.6
#:     4096           18.0      7.4       11.2      5.2
#:     8192           54.7      14.1      35.2      9.8
#:
#: At 2048 bits the two are about even, so the cutoff sits at 4096.  The
#: largest operand of a depth-10 sweep of height <= 30 has 2827 bits (r_9
#: and X_9), so that sweep stays on ``*`` and never imports ctypes.  Only
#: this module compares an operand's bit length with it.
CUTOFF_BITS = 4096

_SONAMES = ("libgmp.so.10", "libgmp.so")


def mul(x: int, y: int) -> int:
    """x * y, through GMP when x has at least CUTOFF_BITS bits and libgmp is usable."""
    if x.bit_length() >= CUTOFF_BITS and (gmp := _gmp()):
        return gmp[0](x, y)
    return x * y


def sqr(x: int) -> int:
    """x * x, through GMP when x has at least CUTOFF_BITS bits and libgmp is usable."""
    if x.bit_length() >= CUTOFF_BITS and (gmp := _gmp()):
        return gmp[1](x)
    return x * x


def uses_gmp() -> bool:
    """True when this process's products from the cutoff on go to libgmp (loads it)."""
    return _gmp() is not None


@functools.cache
def _gmp() -> tuple | None:
    """GMP's (mul, sqr) on Python ints, or None where they cannot be used."""
    import ctypes

    if sys.byteorder != "little" or ctypes.sizeof(ctypes.c_long) != 8:
        return None
    for soname in _SONAMES:
        try:
            lib = ctypes.CDLL(soname)
            bits_per_limb = ctypes.c_int.in_dll(lib, "__gmp_bits_per_limb").value
            mpn_mul, mpn_sqr = lib["__gmpn_mul"], lib["__gmpn_sqr"]
        except (OSError, ValueError, AttributeError):  # absent, or not GMP
            continue
        if bits_per_limb != 64:
            return None
        # mp_limb_t mpn_mul(mp_limb_t *rp, const mp_limb_t *s1p, mp_size_t s1n,
        #                   const mp_limb_t *s2p, mp_size_t s2n), s1n >= s2n >= 1;
        # void mpn_sqr(mp_limb_t *rp, const mp_limb_t *s1p, mp_size_t n);
        # rp holds s1n + s2n (2n) limbs and overlaps no input
        ptr, size = ctypes.c_void_p, ctypes.c_long
        mpn_mul.argtypes = (ptr, ptr, size, ptr, size)
        mpn_mul.restype = ctypes.c_ulong
        mpn_sqr.argtypes = (ptr, ptr, size)
        mpn_sqr.restype = None

        def gmp_mul(x: int, y: int) -> int:
            if not x or not y:
                return 0
            u, v = abs(x), abs(y)
            m, n = (u.bit_length() + 63) >> 6, (v.bit_length() + 63) >> 6
            if m < n:
                u, v, m, n = v, u, n, m
            out = ctypes.create_string_buffer(8 * (m + n))
            mpn_mul(out, u.to_bytes(8 * m, "little"), m, v.to_bytes(8 * n, "little"), n)
            z = int.from_bytes(out, "little")
            return -z if (x < 0) is not (y < 0) else z

        def gmp_sqr(x: int) -> int:
            if not x:
                return 0
            u = abs(x)
            n = (u.bit_length() + 63) >> 6
            out = ctypes.create_string_buffer(16 * n)
            mpn_sqr(out, u.to_bytes(8 * n, "little"), n)
            return int.from_bytes(out, "little")

        return (gmp_mul, gmp_sqr) if _agrees(gmp_mul, gmp_sqr) else None
    return None


def _agrees(gmp_mul, gmp_sqr) -> bool:
    """The binding against ``*`` on fixed operands whose limb counts cross
    limb boundaries, signs and GMP's Toom thresholds."""
    for m, n in ((1, 1), (2, 1), (3, 3), (9, 4), (40, 39), (130, 2), (150, 150)):
        y = -_filled(n, 5)
        yy = y * y
        for x in ((1 << 64 * m) - 1, _filled(m, 7)):
            xy = x * y  # y * -x is its negation
            if gmp_mul(x, y) != xy or gmp_mul(y, -x) != -xy:
                return False
            if gmp_sqr(x) != x * x or gmp_sqr(y) != yy:
                return False
    return True


def _filled(limbs: int, base: int) -> int:
    """A fixed integer of exactly ``limbs`` limbs, its top bit set: the low
    ``64 * limbs`` bits of ``base ** (28 * limbs)``, taken by a mask."""
    top = 1 << (64 * limbs)
    return base ** (28 * limbs) & (top - 1) | top >> 1
