"""Exception types raised across the metronet package."""


class MetronetError(Exception):
    """Base class for all metronet errors."""


class ParseError(MetronetError):
    """An input file could not be parsed; message names the path and row."""


class MissingDensity(MetronetError):
    """A boundary feature has no matching row in the densities table."""

    def __init__(self, district_id: str):
        super().__init__(f"no density entry for district {district_id!r}")
        self.district_id = district_id


class InvalidPolygon(MetronetError):
    """A polygon ring has fewer than 3 vertices or encloses zero area."""


class NegativeVisitors(MetronetError):
    """A generator row carries a negative daily-visitor count."""

    def __init__(self, row: int, value: float):
        super().__init__(f"row {row}: daily visitors must be >= 0, got {value}")
        self.row = row


class EmptyGrid(MetronetError):
    """No cell centroid fell inside any district (cell size too large)."""


class LoopInLine(MetronetError):
    """A station index appears twice within a single line."""

    def __init__(self, line_index: int, station: int):
        super().__init__(f"line {line_index}: loop, station {station} visited twice")
        self.line_index = line_index
        self.station = station


class LineTooShort(MetronetError):
    """A line has fewer than 2 stations."""

    def __init__(self, line_index: int, length: int):
        super().__init__(f"line {line_index} has {length} station(s), need >= 2")
        self.line_index = line_index


class TooFewStations(MetronetError):
    """Line layouts need at least 2 stations."""


class InvalidInitialPopulation(MetronetError):
    """Initial population does not hold population_size genomes."""


class FitnessNotFinite(MetronetError):
    """A fitness evaluation returned NaN or infinity."""

    def __init__(self, generation: int, index: int, value: float):
        super().__init__(
            f"fitness of genome {index} in generation {generation} is {value!r}"
        )
        self.generation = generation
        self.index = index


class Disconnected(MetronetError):
    """A line layout leaves some station unreachable."""
