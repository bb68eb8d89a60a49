"""Accent conversion for discrete latent frame sequences via partial diffusion.

A frame sequence drawn from a shifted (second-language) prior is corrupted
part-way along a fixed noise schedule, then carried back deterministically
under a native conditional prior.  The start step is the knob: low values
keep the input's identity, high values land on the native distribution.
"""

__version__ = "0.1.0"
