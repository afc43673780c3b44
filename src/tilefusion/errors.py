"""Error types shared across the package."""


class DimensionError(ValueError):
    """Shapes incompatible with the requested operation."""


class ContractError(ValueError):
    """A call violated an operation's contract (non-shape precondition)."""


class BudgetError(ValueError):
    """A sequence exceeded the language model's context budget."""

    def __init__(self, required: int, available: int):
        self.required = required
        self.available = available
        super().__init__(
            f"sequence needs {required} positions but the context limit is {available}"
        )


class ConfigError(ValueError):
    """An experiment or task configuration is invalid.

    problems holds every issue found, each as "<key>: <text>"; the
    message joins them with "; ".
    """

    def __init__(self, *problems: str):
        super().__init__("; ".join(problems))
        self.problems = list(problems)

    def under(self, prefix: str) -> list:
        """The problems with their keys nested under prefix."""
        return [prefix + p for p in self.problems]


def reject(problems) -> None:
    """Raise every problem found as one ConfigError; none, no error."""
    if problems:
        raise ConfigError(*problems)
