"""Shared configuration for the paper-reproduction benchmark suite."""

from __future__ import annotations


def pytest_addoption(parser):
    parser.addoption("--bench-scale", action="store", default="smoke",
                     help="experiment scale preset (smoke/small/medium)")
