"""Range-aggregate query-path benchmark (see README.md)."""
