"""Numba shim for the time-warp dynamic program in ``_skorohod``.

``njit`` compiles with numba when it is installed (the optional ``jit``
extra) and is the identity decorator otherwise; ``USING_NUMBA`` records
which one is active.
"""
try:
    from numba import njit  # noqa: F401

    USING_NUMBA = True
except ImportError:
    USING_NUMBA = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        if len(args) == 1 and callable(args[0]) and not kwargs:
            return args[0]

        def wrapper(func):
            return func

        return wrapper
