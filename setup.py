"""Setuptools metadata for the ``repro`` package (sources under ``src/``).

The project deliberately has no ``pyproject.toml``: a ``[build-system]``
table would make pip build in an isolated environment, which needs network
access to fetch setuptools.  Without one, ``pip install -e .`` falls back
to the legacy ``setup.py develop`` path, which works offline.  The version
is read from ``repro.__version__`` so it is stated in one place.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
)
