"""Exception types raised across the metronet package."""


class MetronetError(Exception):
    """Base class for all metronet errors."""


class ParseError(MetronetError):
    """An input file could not be parsed; message names the path and row."""


class InvalidPolygon(MetronetError):
    """A polygon ring has fewer than 3 vertices or encloses zero area."""


class EmptyGrid(MetronetError):
    """No cell centroid fell inside any district (cell size too large)."""


class LoopInLine(MetronetError):
    """A station index appears twice within a single line."""

    def __init__(self, line_index: int, station: int):
        super().__init__(f"line {line_index}: loop, station {station} visited twice")


class LineTooShort(MetronetError):
    """A line has fewer than 2 stations."""

    def __init__(self, line_index: int, length: int):
        super().__init__(f"line {line_index} has {length} station(s), need >= 2")


class TooFewStations(MetronetError):
    """Line layouts need at least 2 stations."""


class InvalidInitialPopulation(MetronetError):
    """Initial population does not hold population_size genomes."""


class FitnessNotFinite(MetronetError):
    """A fitness evaluation returned NaN or infinity."""

    def __init__(self, generation: int, index: int, value: float):
        super().__init__(f"fitness of genome {index} in generation {generation} is {value!r}")


class Disconnected(MetronetError):
    """A line layout leaves some station unreachable."""
