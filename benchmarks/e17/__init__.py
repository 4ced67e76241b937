"""E17 layer-budget benchmark (see README.md in this directory)."""
