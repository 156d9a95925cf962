"""Legacy shim so `pip install -e .` works on toolchains without PEP 517."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "TerraDir hierarchical routing with adaptive soft-state replica "
        "management (IPPS 2004 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
