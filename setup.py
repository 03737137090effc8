"""Package metadata.

Kept in setup.py (rather than a PEP 621 ``[project]`` table) so that
``pip install -e .`` works on offline machines that lack the ``wheel``
package: pip then uses the legacy ``setup.py develop`` editable path.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Low-power hardware/software partitioning for core-based embedded "
        "systems (reproduction of Henkel, DAC 1999)"
    ),
    long_description=open("README.md").read() if __import__("os").path.exists("README.md") else "",
    long_description_content_type="text/markdown",
    python_requires=">=3.9",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
)
