"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: DataError -> 2, ModelError -> 3.
"""


class DataError(Exception):
    """Bad input data: malformed files, misaligned corpora, invalid parameters."""


class ParseError(DataError):
    """A file failed to parse, or a setting broke its rule. Carries the 1-based line number when known.

    A setting's check raises it, so that the pipeline loader, which reads
    settings from a file, can name the file.
    """

    def __init__(self, message, line=None, path=None):
        self.message = message
        self.line = line
        self.path = path
        where = ":".join(str(part) for part in (path, line) if part is not None)
        super().__init__(f"{where}: {message}" if where else message)


class ModelError(Exception):
    """A model cannot be trained, loaded, or applied as requested."""


class FoldError(DataError):
    """Too few instances to build the requested cross-validation folds."""
