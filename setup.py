"""Build script for the optional compiled kernel.

The package is fully functional without the extension; smoothing falls back to
the pure-Python path at import time. Any compile failure therefore degrades to
a pure build instead of aborting the install.

Force a pure build with SMOOTHMAS_PURE_BUILD=1.
"""

import os

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext
from setuptools.errors import CCompilerError, ExecError, PlatformError

BUILD_ERRORS = (CCompilerError, ExecError, PlatformError, OSError, ValueError)


class OptionalBuildExt(build_ext):
    def run(self):
        try:
            super().run()
        except BUILD_ERRORS as exc:  # pragma: no cover - exercised on broken toolchains
            print(f"smoothmas: skipping compiled kernel ({exc!r}); using pure-Python fallback")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except BUILD_ERRORS as exc:  # pragma: no cover
            print(f"smoothmas: skipping {ext.name} ({exc!r}); using pure-Python fallback")


def extensions():
    if os.environ.get("SMOOTHMAS_PURE_BUILD") == "1":
        return []
    return [
        Extension(
            "smoothmas._kernels._fast",
            sources=["src/smoothmas/_kernels/_fast.c"],
            # lets `build_ext --inplace` skip copying a kernel that failed to build
            optional=True,
            # The kernel must round every multiply and add separately, as the
            # pure-Python reference does. Contraction would fuse them into FMA
            # instructions on targets that have them (aarch64, x86-64-v3), and
            # -ffast-math would reorder sums; either breaks bit-identity.
            # -fno-fast-math also overrides a -ffast-math inherited from CFLAGS.
            extra_compile_args=["-O3", "-ffp-contract=off", "-fno-fast-math"],
        )
    ]


setup(
    ext_modules=extensions(),
    cmdclass={"build_ext": OptionalBuildExt},
)
