"""Package metadata for the SigmaTyper reproduction (``repro``, ``src/`` layout).

The pinned offline toolchain (setuptools 65, no ``wheel`` package) cannot
perform PEP 660 editable installs, so the metadata lives here rather than in
a ``pyproject.toml``: ``pip install -e . --no-build-isolation
--no-use-pep517`` falls back to the legacy develop-mode install.  The
version is read from ``src/repro/__init__.py`` without importing the package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    description="SigmaTyper: semantic column type detection for enterprise tables",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
