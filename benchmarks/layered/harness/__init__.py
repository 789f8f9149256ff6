"""The layered benchmark's own modules (see ../README.md).

Nothing here is imported by ``src/repro``; the harness drives the library
only through its public surface.
"""
