"""Build script.  The compiled search kernel is optional: if Cython (or a C
compiler) is unavailable the package installs anyway and falls back to the
pure-Python kernel at import time.
"""

import os

from setuptools import setup

ext_modules = []
if os.path.exists("src/wspkit/_kernel/_speed.pyx"):
    try:
        from Cython.Build import cythonize

        ext_modules = cythonize(
            ["src/wspkit/_kernel/_speed.pyx"],
            compiler_directives={
                "language_level": "3",
                "boundscheck": False,
                "wraparound": False,
                "cdivision": True,
            },
        )
        for ext in ext_modules:
            ext.extra_compile_args = ["-O3"]
    except ImportError:
        ext_modules = []

setup(ext_modules=ext_modules)
