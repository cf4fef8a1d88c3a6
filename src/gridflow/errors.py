"""Shared exception hierarchy.

Every module defines its own specific exceptions; they all inherit from
GridflowError so callers (the CLI in particular) can map failures to exit
codes without enumerating modules.
"""


class GridflowError(Exception):
    """Base class for all errors raised by this package."""

    run_id: str | None = None  # the run a failure ended, once the run was claimed


class UserError(GridflowError):
    """Invalid input supplied by the user: syntax, structure, licensing.

    Maps to CLI exit code 1.
    """


class RuntimeFailure(GridflowError):
    """A run that started correctly failed while executing.

    Maps to CLI exit code 2.
    """


class IterationLimit(RuntimeFailure):
    """A workflow cycle exceeded its allowed number of repetitions.

    Raised by the engine's token game when a token crosses one back edge
    more often than the run's max_iterations allow.
    """

