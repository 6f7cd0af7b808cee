"""Peak-age analytics, tandem-queue simulation, and THz link-budget sweeps (one module each)."""

__version__ = "0.1.0"
