"""Setuptools packaging for the ``repro`` library and the ``repro-wsn`` CLI.

All metadata lives here; there is deliberately no ``pyproject.toml``.  The
offline lab machines this project targets cannot fetch the build
requirements that PEP 517 build isolation would install, and often lack
the ``wheel`` package that ``pip install -e .`` needs for a PEP 660
editable install.  ``python setup.py develop`` works without either.
"""

from setuptools import find_packages, setup

setup(
    name="repro-wsn",
    version="1.0.0",
    description="In-network outlier detection in wireless sensor networks "
    "(Branch et al.): simulated reproduction",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.8",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro-wsn = repro.cli:main"]},
)
