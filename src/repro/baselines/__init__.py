"""Baseline schedulers the paper compares against (Section 4.2).

* :class:`INFlessPolicy` — per-function enumeration guided by a resource
  -efficiency / throughput metric; fragmentation-minimising placement;
  SLO distributed over stages by average service time.
* :class:`FaSTGSharePolicy` — per-function enumeration guided by
  throughput-per-vGPU; GPU-fragmentation-minimising placement; the same
  service-time SLO distribution.  Both derive from
  :class:`~repro.baselines.enumeration.EnumerationPolicy` and differ only
  in the rank key and the placement key.
* :class:`OrionPolicy` — best-first search over the joint per-stage
  configuration vector with a search-time cutoff; the plan is fixed at the
  first stage of each request (no adaptation).
* :class:`AquatopePolicy` — Bayesian-optimisation-trained static
  configurations (offline training, no adaptation).

All baselines use the same GPU sharing, batching, prewarming and (except the
first two, which follow their own fragmentation-minimising placement) data
paths as ESG, so the comparison isolates the scheduling algorithm, exactly
as in the paper.
"""

from repro.baselines.aquatope import AquatopePolicy
from repro.baselines.bo import BayesianOptimizer, GaussianProcess
from repro.baselines.fastgshare import FaSTGSharePolicy
from repro.baselines.infless import INFlessPolicy
from repro.baselines.orion import OrionPolicy
from repro.baselines.service_time_slo import service_time_fractions

__all__ = [
    "INFlessPolicy",
    "FaSTGSharePolicy",
    "OrionPolicy",
    "AquatopePolicy",
    "BayesianOptimizer",
    "GaussianProcess",
    "service_time_fractions",
]
