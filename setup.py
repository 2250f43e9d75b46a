"""Packaging metadata for the VITAL reproduction.

This file is the project's only packaging metadata (there is no
``pyproject.toml``).  Everything is importable straight from the source
tree with ``PYTHONPATH=src``; ``pip install -e .`` works too, also on
offline machines whose setuptools lacks the ``wheel`` package that PEP 660
editable installs need.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
).group(1)

setup(
    name="vital-repro",
    version=VERSION,
    description=("VITAL: vision transformer indoor localization resilient "
                 "to smartphone heterogeneity, with its serving stack"),
    python_requires=">=3.11",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy", "orjson"],
)
