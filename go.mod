module numachine

go 1.23
