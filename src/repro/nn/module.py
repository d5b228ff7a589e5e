"""Module system: parameters, hierarchical containers, state persistence."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.autograd import Tensor
from repro.autograd.tensor import as_compute_array, get_default_dtype


class StateDictKeyError(KeyError):
    """Raised when a state_dict has missing or unexpected parameter names."""

    def __str__(self) -> str:  # KeyError quotes its message; show it plainly
        return self.args[0] if self.args else ""


class StateDictShapeError(ValueError):
    """Raised when state_dict entries disagree with parameter shapes."""


class Parameter(Tensor):
    """A tensor registered as a trainable weight of a :class:`Module`."""

    def __init__(self, data):
        super().__init__(np.asarray(data, dtype=get_default_dtype()), requires_grad=True)


class Module:
    """Base class for all layers and models.

    Child modules and parameters assigned as attributes are registered
    automatically, supporting recursive parameter collection, train/eval
    mode propagation, and ``state_dict`` persistence (written to disk as a
    :mod:`repro.runtime` checkpoint).
    Non-trainable state that must survive checkpointing (batch-norm
    running statistics, for instance) is declared with
    :meth:`register_buffer` and travels with the parameters through
    ``state_dict``/``load_state_dict``.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        elif key in self.__dict__.get("_buffers", ()):
            value = as_compute_array(value)
            self._buffers[key] = value
        object.__setattr__(self, key, value)

    # ------------------------------------------------------------------
    # Buffers (persistent non-trainable state)
    # ------------------------------------------------------------------
    def register_buffer(self, name: str, value) -> np.ndarray:
        """Register ``value`` as a persistent non-trainable array.

        The buffer is exposed as a plain attribute; re-assigning the
        attribute (``self.running_mean = ...``) keeps the registry in
        sync, so exponential-average updates need no special casing.
        Float buffers are held in the compute dtype, like parameters.
        """
        value = as_compute_array(value)
        self._buffers[name] = value
        object.__setattr__(self, name, value)
        return value

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """Yield ``(dotted_name, buffer)`` pairs recursively."""
        for name, buffer in self._buffers.items():
            yield (f"{prefix}{name}", buffer)
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    def buffers(self) -> List[np.ndarray]:
        """Return all registered buffers of this module tree."""
        return [buffer for _, buffer in self.named_buffers()]

    def _named_buffer_owners(self, prefix: str = ""):
        """Yield ``(dotted_name, owning_module, attribute)`` triples."""
        for name in self._buffers:
            yield (f"{prefix}{name}", self, name)
        for name, module in self._modules.items():
            yield from module._named_buffer_owners(prefix=f"{prefix}{name}.")

    # ------------------------------------------------------------------
    # Parameter access
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs recursively."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        """Return all trainable parameters of this module tree."""
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of scalar weights."""
        return sum(param.size for param in self.parameters())

    def zero_grad(self) -> None:
        """Clear accumulated gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    # ------------------------------------------------------------------
    # Train / eval mode
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout / batch norm)."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    @contextmanager
    def evaluating(self) -> Iterator["Module"]:
        """Run the block in eval mode, then restore training mode if set.

        An already-evaluating module is left alone, so the recursive mode
        walk is skipped on the serving path.
        """
        was_training = self.training
        if was_training:
            self.eval()
        try:
            yield self
        finally:
            if was_training:
                self.train()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Snapshot all parameters and buffers (copies), dotted-keyed."""
        state = {name: param.data.copy() for name, param in self.named_parameters()}
        state.update({name: buffer.copy() for name, buffer in self.named_buffers()})
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter and buffer values atomically.

        Every problem is gathered before any state is touched, so a
        bad snapshot can never leave the module half-loaded: missing and
        unexpected keys raise ``StateDictKeyError`` (a ``KeyError``)
        listing both sets, and shape mismatches raise
        ``StateDictShapeError`` (a ``ValueError``) listing every
        offending entry — silent numpy broadcasting never happens.
        Float parameters and buffers are converted to the compute dtype.
        """
        own = dict(self.named_parameters())
        buffer_owners = {
            name: (module, attr) for name, module, attr in self._named_buffer_owners()
        }
        own_buffers = dict(self.named_buffers())
        known = set(own) | set(own_buffers)
        missing = sorted(known - set(state))
        unexpected = sorted(set(state) - known)
        if missing or unexpected:
            parts = []
            if missing:
                parts.append(f"missing keys: {', '.join(missing)}")
            if unexpected:
                parts.append(f"unexpected keys: {', '.join(unexpected)}")
            raise StateDictKeyError(
                f"state_dict does not match module ({'; '.join(parts)})"
            )
        converted = {
            name: np.asarray(state[name], dtype=get_default_dtype()) for name in own
        }
        converted_buffers = {name: as_compute_array(state[name]) for name in own_buffers}
        mismatched = [
            f"{name}: expected {param.shape}, got {converted[name].shape}"
            for name, param in own.items()
            if converted[name].shape != param.shape
        ]
        mismatched += [
            f"{name}: expected {buffer.shape}, got {converted_buffers[name].shape}"
            for name, buffer in own_buffers.items()
            if converted_buffers[name].shape != buffer.shape
        ]
        if mismatched:
            raise StateDictShapeError(
                "state_dict shape mismatch (" + "; ".join(mismatched) + ")"
            )
        for name, param in own.items():
            param.data[...] = converted[name]
        for name, (module, attr) in buffer_owners.items():
            setattr(module, attr, converted_buffers[name].copy())

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
