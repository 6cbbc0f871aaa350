"""Conceptual design toolkit for a quadrotor biplane tail-sitter UAV.

Modules cover the proprotor aerodynamics (``airfoil``, ``bemt``), the
design-space search (``explorer``), lifting-surface and powertrain sizing
(``wing``, ``powertrain``), and a variable-pitch quadrotor flight
simulation (``flightsim``).  ``presets`` holds the reference vehicle that
the studies and the acceptance checks are built around.

Names are imported from their modules (``from designkit.bemt import
BladeGeometry``); the package root holds only ``__version__``, so that
importing one module loads only what that module needs.
"""

__version__ = "0.1.0"
