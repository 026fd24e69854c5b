"""Build script.  It builds no extension: the package runs on the pure-Python
search kernel, and the tests compile the hand-written C kernel
(`src/wspkit/_kernel/_speed.c`) for the parity suite.
"""

from setuptools import setup

setup()
