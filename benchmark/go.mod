module pioman/benchmark

go 1.22

require pioman v0.0.0

replace pioman => ../
