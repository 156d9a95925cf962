"""The TerraDir server (peer) model: a layered message pipeline.

``Peer`` is a slim facade composing the pipeline components:
``IngressQueue`` (bounded FIFO + drops), ``SoftStateAbsorber``
(piggyback intake), ``RoutingCore`` (decision + forward), and
``ReplicaStore`` (replica lifecycle).
"""
