type t = Json | Binary
