"""Accent conversion for discrete latent frame sequences via partial diffusion.

A frame sequence drawn from a shifted (second-language) prior is corrupted
part-way along a fixed noise schedule, then carried back deterministically
under a native conditional prior.  The start step is the knob: low values
keep the input's identity, high values land on the native distribution.
"""
from .denoiser import (
    DenoiserParams,
    ModelBundle,
    ResidualParams,
    TrainConfig,
    forward,
    load_model,
    loss_total,
    predict_zc2,
    save_model,
    time_embedding,
    train,
)
from .harness import (
    SweepTable,
    World,
    WorldSpec,
    posterior_curves,
    gen_dataset,
    gen_world,
    load_world,
    save_world,
    sweep,
)
from .latent import (
    Codebook,
    LatentSequence,
    Standardizer,
    fit_standardizer,
    load_dataset,
    save_dataset,
)
from .prior import (
    ConditionalGMM,
    PosteriorGrid,
    gaussian_posterior_moments,
    posterior_grid,
)
from .sampler import convert_sequences, denoise_from
from .schedule import Schedule, alpha_bar_at, ddim_step, default_schedule, forward_corrupt, \
    linear_schedule, reconstruct_x0

__version__ = "0.1.0"
