module github.com/dimmunix/dimmunix/bench

go 1.22

require github.com/dimmunix/dimmunix v0.0.0

replace github.com/dimmunix/dimmunix => ../
