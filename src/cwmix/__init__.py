"""Cluster-weighted mixture modeling.

Mixtures of joint laws p(x, y) factored per component into an x-marginal, a
linear y|x regression law, and a mixing weight.  Gaussian and Student-t
components, the nested mixture-of-regressions variants, EM/ECME fitting,
evaluation metrics, and seeded synthetic data generators.
"""

__version__ = "0.1.0"
