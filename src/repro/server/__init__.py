"""The TerraDir server (peer) model: a layered message pipeline.

``Peer`` composes the pipeline components and keeps the routing state
they share: ``IngressQueue`` (bounded FIFO, service slot, drops),
``SoftStateAbsorber`` (piggyback intake), ``RoutingCore`` (decision +
forward), and ``ReplicaStore`` (replicas, hosted list, adverts).
"""
