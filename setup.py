"""Build script for the optional compiled kernel.

The package is fully functional without the extension; smoothing falls back to
the pure-Python path at import time. The extension is marked optional, so
setuptools turns a compile failure into a warning and a pure build instead of
aborting the install.
"""

from setuptools import Extension, setup

KERNEL = Extension(
    "smoothmas._kernels._fast",
    sources=["src/smoothmas/_kernels/_fast.c"],
    # a failed build warns and exits 0; `build_ext --inplace` then copies no kernel
    optional=True,
    # The kernel must round every multiply and add separately, as the
    # pure-Python reference does. Contraction would fuse them into FMA
    # instructions on targets that have them (aarch64, x86-64-v3), and
    # -ffast-math would reorder sums; either breaks bit-identity.
    # -fno-fast-math also overrides a -ffast-math inherited from CFLAGS.
    extra_compile_args=["-O3", "-ffp-contract=off", "-fno-fast-math"],
)


setup(ext_modules=[KERNEL])
