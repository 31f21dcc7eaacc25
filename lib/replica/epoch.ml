let magic = "RTA-EPOCH-1"
let path_of base = base ^ ".epoch"

let load ?(vfs = Storage.Vfs.os) base =
  match Storage.Frame.Word.load vfs ~path:(path_of base) ~magic with
  | None -> 0
  | Some e when e < 0 -> failwith (Printf.sprintf "%s: corrupt (negative epoch)" (path_of base))
  | Some e -> e

let store ?(vfs = Storage.Vfs.os) base epoch =
  if epoch < 0 then invalid_arg "Replica.Epoch.store: epoch must be >= 0";
  Storage.Frame.Word.store vfs ~path:(path_of base) ~magic epoch
