module transientbd/benchmark

go 1.22

require transientbd v0.0.0

replace transientbd => ../
