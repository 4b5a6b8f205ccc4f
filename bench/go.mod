module faaskeeper/bench

go 1.22

require faaskeeper v0.0.0

replace faaskeeper => ../
