"""The repository benchmark's own modules (see ../README.md)."""
