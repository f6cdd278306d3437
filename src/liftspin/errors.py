"""The one error type of the package.

The CLI maps UnsupportedInput to exit code 3, and a plain ValueError (a
malformed argument) or an OSError (a file it cannot read or write) to exit
code 2; everything else that escapes, IndexError included, is a genuine bug
and keeps its traceback.  The message of an UnsupportedInput names the
condition: the weight, cap, bound or range the input falls outside.
"""


class UnsupportedInput(ValueError):
    """Input is well-formed but outside what this package supports."""
