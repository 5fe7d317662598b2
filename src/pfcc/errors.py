"""Exception hierarchy shared across the package.

Each public failure mode gets its own class so the CLI can map them to
distinct exit codes (see ``pfcc.cli``).
"""

from __future__ import annotations


class PfccError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(PfccError):
    """A scenario file failed parsing or structural validation."""


class AssumptionError(PfccError):
    """A structural assumption required by the control design is violated."""


class RegulationError(AssumptionError):
    """A state regulation equation S = A + B*U has no solution.

    ``failed`` marks, over the stack of agents the equations were solved
    for, each agent with an unsolvable equation (one numpy bool when they
    were solved for one agent).
    """

    def __init__(self, message: str, failed=None):
        super().__init__(message)
        self.failed = failed


class PersistentExcitationError(PfccError):
    """Collected data is not rich enough for the requested regression.

    Raised when a learner window has fewer rows than its regression has
    unknowns, or when its regression matrix is zero; the fix is more
    samples or stronger exploration noise.
    """


class DataConsistencyError(PersistentExcitationError):
    """The window is not consistent with any time-invariant linear model.

    Typically means samples were collected while the observers feeding the
    augmented state were still in their transient; the fix is to flush the
    window and re-collect once they settle.
    """


class ConvergenceError(PfccError):
    """An iterative solver failed to converge within its iteration budget."""


class InfluenceError(PfccError):
    """An observer or gain was requested for a leader outside an agent's
    influential set."""


class SimulationAbort(PfccError):
    """A mid-run failure, annotated with the tick and agent where it occurred."""

    def __init__(self, tick: int, agent: str, cause: Exception):
        self.tick = tick
        self.agent = agent
        self.cause = cause
        super().__init__(f"tick {tick}, agent {agent}: {cause}")
