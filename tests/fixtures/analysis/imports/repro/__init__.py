"""A package ``__init__`` re-exports by importing: nothing here is bad."""

from .base import Base
from .tool import helper
