"""Names for the other fixture modules to import."""


class Base:
    pass


class Exported:
    pass
