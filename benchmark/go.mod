module streamgraph/benchmark

go 1.22

require streamgraph v0.0.0

replace streamgraph => ../
