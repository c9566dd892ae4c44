"""Legacy setup shim.

The execution environment is offline and has no ``wheel`` package, so PEP
517/660 editable installs fail; this shim lets ``pip install -e .`` take the
classic ``setup.py develop`` path.  All metadata lives in ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis", "scipy>=1.10"],
    },
)
