"""Secrecy-rate simulator and decoding-order search toolkit for downlink
NOMA cells where every user is a potential eavesdropper on every other."""

from .orders import *
from .system import *
from .optimizer import *
from .experiments import *
from .text import *

__version__ = "0.1.0"
