"""Wall-clock benchmark of the RFly reproduction (see README.md)."""
