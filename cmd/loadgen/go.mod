module systolicdb/cmd/loadgen

go 1.22

require systolicdb v0.0.0

replace systolicdb => ../..
