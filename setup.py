"""Package setup: a pure-Python install with the ``repro`` console script."""

from setuptools import setup

setup(
    entry_points={
        "console_scripts": ["repro=repro.__main__:main"],
    },
)
