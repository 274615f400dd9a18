"""Backend record: fmpp runs on NumPy only and compiles nothing with numba.

``USING_NUMBA`` is kept for tools that record the active backend.
"""
USING_NUMBA = False
