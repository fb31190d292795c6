module xunet

go 1.23
