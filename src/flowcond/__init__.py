"""Conditional sampling for inverse problems under a flow prior.

A frozen, pre-trained normalizing flow acts as the signal prior; a second
trainable flow in its latent space (the pre-generator) is fit by smoothed
variational inference so that the composition samples from an approximate
posterior given measurements.  The package also ships Langevin and
latent-optimization baselines, uncertainty estimators, and an executable
CNF-to-flow construction showing why exact conditioning is intractable.

The submodules are the API, and importing the package loads none of them:
``flows`` (flow layers, models and the composed sampler), ``measurement``
(operators and observations), ``objective`` (the smoothed VI loss),
``training`` (fits and the optimizer), ``baselines`` (Langevin and point
estimates), ``estimators`` (MMSE, MSE, diversity and pixel marginals),
``satgadget`` (the 3-SAT hardness gadget), ``diffengine`` (the tape),
``persist`` (files and run configs) and ``cli`` (the commands).
"""

__version__ = "0.1.0"
