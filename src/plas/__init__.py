"""Desk-scale offline reinforcement learning with latent-action policies.

The package is organized as a small numpy library:

- :mod:`plas.nets` — MLP core with hand-written reverse-mode gradients
- :mod:`plas.cvae` — conditional VAE over actions (the behavior model)
- :mod:`plas.agent` — the latent-action actor-critic algorithm
- :mod:`plas.data` / :mod:`plas.envs` / :mod:`plas.generators` — toy
  continuous-control tasks and offline dataset regimes
- :mod:`plas.baselines` — behavior cloning and the unconstrained learner
- :mod:`plas.diagnostics` — Q-error and support-distance analysis
- :mod:`plas.mmd` — sampled kernel two-sample (MMD) simulation study
"""

__version__ = "0.1.0"
