"""Install script: ``pip install -e . --no-use-pep517 --no-build-isolation``
works offline.

The project has no ``pyproject.toml``; the metadata is the few fields
below (the package lives under ``src/``, its version is read from
``repro.__version__``).  When cffi is present this also
pre-builds the native columnar kernels so the first query does not pay
the compile (the extension also self-builds on first import, so installs
without cffi still work end to end).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
).group(1)

try:
    import cffi  # noqa: F401

    extras = {"cffi_modules": ["src/repro/columnar/kernels/build.py:ffibuilder"]}
except ImportError:
    extras = {}

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    **extras,
)
