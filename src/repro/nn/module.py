"""Module system: parameter containers, submodule registration, taps.

Modules follow the familiar layer-object pattern: parameters and submodules
are registered automatically on attribute assignment, ``parameters()`` walks
the tree, and ``state_dict``/``load_state_dict`` serialize weights as plain
NumPy arrays (used to cache trained model zoo checkpoints).

Quantization taps
-----------------
The QUQ pipeline needs to observe and rewrite activations at named points in
the dataflow (the green and red arrows of Figure 1 in the paper).  Rather
than hard-wiring quantizers into layers, every model calls
``self.tap("name", x)`` at each dataflow point.  By default this is the
identity; attaching a :class:`TapDispatcher` (see
:mod:`repro.quant.qmodel`) reroutes those calls through observers or
fake-quantizers without touching model code.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..autograd import Tensor

__all__ = ["Parameter", "Module", "TapDispatcher", "Sequential", "ModuleList"]


class Parameter(Tensor):
    """A tensor registered as a learnable weight of a module."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class TapDispatcher:
    """Identity tap dispatcher; subclasses intercept named activations."""

    def tap(self, name: str, value: Tensor) -> Tensor:
        """Observe and/or transform the activation ``value`` at tap ``name``."""
        return value


_IDENTITY_DISPATCHER = TapDispatcher()


class Module:
    """Base class for all neural-network layers and models."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_qualified_name", "")
        object.__setattr__(self, "_dispatcher", _IDENTITY_DISPATCHER)
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._params.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def modules(self) -> list["Module"]:
        return [m for _, m in self.named_modules()]

    # ------------------------------------------------------------------
    # Mode switches
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", True)
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", False)
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Taps
    # ------------------------------------------------------------------
    @property
    def tap_dispatcher(self) -> TapDispatcher:
        """The dispatcher this module's taps route through."""
        return self._dispatcher

    def set_tap_dispatcher(self, dispatcher: TapDispatcher | None) -> None:
        """Attach (or detach, with ``None``) a tap dispatcher to the tree."""
        dispatcher = dispatcher or _IDENTITY_DISPATCHER
        for module in self.modules():
            object.__setattr__(module, "_dispatcher", dispatcher)

    def assign_tap_names(self, prefix: str = "") -> None:
        """Give every module its dotted path so taps are globally unique."""
        for name, module in self.named_modules(prefix=prefix):
            object.__setattr__(module, "_qualified_name", name)

    def tap(self, point: str, value: Tensor) -> Tensor:
        """Route activation ``value`` through the dispatcher at ``point``."""
        name = f"{self._qualified_name}.{point}" if self._qualified_name else point
        return self._dispatcher.tap(name, value)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float32)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{value.shape} vs {param.data.shape}"
                )
            param.data = value.copy()

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """A list of submodules registered under their indices."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> None:
        setattr(self, str(len(self._items)), module)
        self._items.append(module)

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]


class Sequential(Module):
    """Chain modules, feeding each output to the next module's input."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._items = list(modules)
        for i, module in enumerate(self._items):
            setattr(self, str(i), module)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._items:
            x = module(x)
        return x

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]
