module leakpruning/benchmark

go 1.22

require leakpruning v0.0.0

replace leakpruning => ../
