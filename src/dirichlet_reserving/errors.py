"""The two bases of every exception the package raises.

:class:`InputError` marks bad input: a malformed file, an unidentifiable
triangle, or an argument outside its domain. :class:`NumericalError`
marks a computation that failed on valid input: a fit that did not
converge, a bootstrap or sampler that gave up, a configuration outside
the model's support. The command line exits 2 on the first and 1 on the
second.
"""


class InputError(ValueError):
    """Bad input data or arguments; the command line exits 2."""


class NumericalError(RuntimeError):
    """A computation failed on valid input; the command line exits 1."""
