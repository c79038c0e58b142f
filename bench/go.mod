module xpointdb/bench

go 1.23

require xpointdb v0.0.0

replace xpointdb => ../
