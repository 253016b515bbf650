"""Package metadata for the ``repro`` package (``src/`` layout).

Kept as a plain ``setup.py``: on an offline machine without the
``wheel`` package, PEP 517 editable installs (which build a wheel)
fail, and this file lets ``pip install -e .`` fall back to
``setup.py develop``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
