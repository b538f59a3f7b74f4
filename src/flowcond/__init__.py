"""Conditional sampling for inverse problems under a flow prior.

A frozen, pre-trained normalizing flow acts as the signal prior; a second
trainable flow in its latent space (the pre-generator) is fit by smoothed
variational inference so that the composition samples from an approximate
posterior given measurements.  The package also ships Langevin and
latent-optimization baselines, uncertainty estimators, and an executable
CNF-to-flow construction showing why exact conditioning is intractable.
"""

from .baselines import (Chain, LmcConfig, PointEstimate, csgm_estimate,
                        ivom_estimate, lmc_sample)
from .diffengine import Graph, backward, check_gradients
from .estimators import (PixelMarginal, diversity, mmse_estimate, mse,
                         mse_decomposition, pixel_marginal, psnr)
from .flows import (ComposedSampler, CouplingLayer, DiagonalAffine, FlowModel,
                    Mlp, Permutation, gaussian_logpdf, make_flow)
from .measurement import (Downsample2xOp, GaussianOp, GrayscaleOp, MaskOp,
                          Observation, make_observation)
from .objective import (GridSpec, LossBreakdown, SmoothingSpec,
                        joint_vs_marginal_gap, latent_kl_estimate, svi_loss)
from .persist import (Dataset, load_checkpoint, load_run_config,
                      make_blob_images, save_checkpoint, synth_dataset)
from .satgadget import (CnfFormula, GadgetFlow, SatGadget, compile_gadget,
                        conditional_sat_demo, delta_eps, parse_dimacs,
                        to_dimacs, transformed_var)
from .training import (AdamState, TrainConfig, TrainTrace, observation_context,
                       stream_rng, train_amortized, train_base_mle, train_svi)

__version__ = "0.1.0"
