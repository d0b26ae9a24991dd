"""The one exception for input the program cannot use.

Raised where a file is read or a user-supplied spec is checked, before
any state changes; the message starts with where the input failed (a
path with its line or record, a field or a flag). ``repro.cli.main``
prints it as one stderr line and exits 2; serve's ``handle`` answers it
with ``ok: false``.
"""

__all__ = ["InputError"]


class InputError(ValueError):
    """An input, named at the start of the message, cannot be used."""
