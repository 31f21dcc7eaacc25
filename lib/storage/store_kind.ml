type t = Memory | Mmap

let to_string = function Memory -> "memory" | Mmap -> "mmap"

let of_string = function
  | "memory" | "mem" -> Some Memory
  | "mmap" | "file" -> Some Mmap
  | _ -> None

let all = [ Memory; Mmap ]
let backing = function Memory -> `Buffered | Mmap -> `Auto
let pp ppf t = Format.pp_print_string ppf (to_string t)
