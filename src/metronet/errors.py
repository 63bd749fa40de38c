"""Exception types raised across the metronet package, one per outcome.

The CLI maps errors to exit codes by phase (resolve and load: 2, a stage:
3); only ``validate`` tells a type apart, reporting ``InvalidLayout`` as a
violation (exit 4).
"""


class MetronetError(Exception):
    """Anything metronet rejects: a bad polygon, an empty grid, a non-finite fitness."""


class ParseError(MetronetError):
    """An input file is at fault; the message names the path and the row or feature."""


class InvalidLayout(MetronetError):
    """A line layout breaks a rule: a short line, a repeated or unknown station, a disconnected network."""
