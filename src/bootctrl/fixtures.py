"""Shipped example system, scheme, and polynomial specification.

The example is a two-state stable plant with a two-state stabilizing
output-feedback controller; its certified l2-gains under a slope-0.2296
sector are approximately 5.13 (direct test) and 3.97 (lifted test with
T_BS = 10), which the bundled defaults reproduce.
"""

from __future__ import annotations

from importlib.resources import as_file, files

from .bootpoly import BootstrapSpec
from .crypto_sim import SchemeParams, load_scheme
from .statespace import Controller, Plant, load_system

__all__ = [
    "demo_system",
    "demo_scheme",
    "default_bootstrap_spec",
]

REFERENCE_SECTOR_SLOPE = 0.2296


def _asset(name):
    return files("bootctrl.assets").joinpath(name)


def demo_system() -> tuple[Plant, Controller]:
    with as_file(_asset("demo_system.json")) as path:
        return load_system(path)


def demo_scheme() -> SchemeParams:
    with as_file(_asset("demo_scheme.json")) as path:
        return load_scheme(path)


def default_bootstrap_spec() -> BootstrapSpec:
    """d = 25, K = 2, eps = 0.5 at unit modulus; rescale to q0 before use."""
    return BootstrapSpec(q=1.0, epsilon=0.5, K=2, d=25)
