"""Risk-aware operating-point design for covert quantum links.

The pipeline: sample channel realizations once (`samples`), reduce them to
sorted covertness/rate arrays, then answer design questions against the
cache — hard-budget optima and sweeps (`risk_constrained`), closed-form
validation (`benchmark`), soft-penalty exploration (`risk_adjusted`), and
budget sensitivities (`sensitivity`).  `covertq.cli` exposes the same
pipelines as a command-line tool.

Each module's __all__ declares its public names, and the package exports
all of them.
"""

from .distributions import *  # noqa: F403
from .physics import *  # noqa: F403
from .quantiles import *  # noqa: F403
from .samples import *  # noqa: F403
from .risk_constrained import *  # noqa: F403
from .benchmark import *  # noqa: F403
from .risk_adjusted import *  # noqa: F403
from .sensitivity import *  # noqa: F403

__version__ = "0.1.0"
